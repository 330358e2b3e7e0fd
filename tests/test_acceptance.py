"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (visible with -s).

Run:  pytest tests/test_acceptance.py -v -s
"""

import contextlib
import functools
import io
import math
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.signal import freqz

from svcforge.audio import wav_bytes
from svcforge.cli import main as cli_main
from svcforge.contrastive import ramp_weight
from svcforge.corpus import (
    SVCC_TARGET_SPEAKERS,
    canonical_spec,
    compose_training_set,
    read_manifest,
    reference_manifest_path,
)
from svcforge.diffusion import (
    CLN_PARAM_NAMES,
    ConditionSet,
    ToyDenoiser,
    TrainConfig,
    analytic_gaussian_denoiser,
    evaluate_l2,
    finetune_cln,
    linear_schedule,
    pseudo_speaker_embedding,
    q_sample,
    guided_eps,
    sample,
    train_toy,
)
from svcforge.features import (
    CANONICAL_FRAME_CONFIG as CFG,
    a_weight_db,
    build_mel_filterbank,
)
from svcforge.perturb import (
    formant_shift,
    parametric_eq,
    peaking_biquad,
    pitch_randomize,
)
from svcforge.pitch import F0Track, cents_between, estimate_f0
from svcforge.pitchconv import (
    ConversionPolicy,
    SpeakerF0Stats,
    compute_f0_stats,
    convert_logf0,
)
from synth import sawtooth, sine, vowel


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num:2d} ({name}): PASS")
        return wrapper
    return decorate


@criterion(1, "log-F0 mean-variance map exactness")
def test_criterion_01():
    rng = np.random.default_rng(100)
    f0 = np.where(rng.random(2000) < 0.25, 0.0, rng.uniform(90, 900, 2000))
    track = F0Track(f0)
    stats_x = compute_f0_stats([track], "x")
    stats_y = SpeakerF0Stats("y", math.log(320.0), 0.27, 1234)

    start = time.perf_counter()
    out = convert_logf0(track, stats_x, stats_y,
                        ConversionPolicy(scale_sigma=True, quantize_cents=0))
    elapsed = time.perf_counter() - start

    got = compute_f0_stats([out], "got")
    assert abs(got.mean_log_f0 - stats_y.mean_log_f0) < 1e-9
    assert abs(got.std_log_f0 - stats_y.std_log_f0) < 1e-9
    assert elapsed < 1.0


@criterion(2, "pitch-shift heuristics")
def test_criterion_02():
    rng = np.random.default_rng(101)
    f0 = np.where(rng.random(500) < 0.3, 0.0, rng.uniform(100, 700, 500))
    track = F0Track(f0)

    # cross-domain with matched means: every voiced frame moves exactly
    # +600 cents, a ratio of 2^0.5
    stats = SpeakerF0Stats("s", math.log(220.0), 0.2, 99)
    out = convert_logf0(track, stats, stats, ConversionPolicy(cross_domain=True))
    ratio = out.f0_hz[out.vuv] / track.f0_hz[track.vuv]
    assert np.max(np.abs(ratio - 2 ** 0.5)) < 1e-12
    assert np.array_equal(out.vuv, track.vuv)

    # quantized shift: per-frame shift is a constant exact multiple of 100
    stats_y = SpeakerF0Stats("y", math.log(220.0) + 463.7 * math.log(2) / 1200.0,
                             0.4, 99)
    out_q = convert_logf0(track, stats, stats_y,
                          ConversionPolicy(scale_sigma=False, quantize_cents=100))
    shifts = cents_between(track.f0_hz[track.vuv], out_q.f0_hz[out_q.vuv])
    assert np.ptp(shifts) < 1e-9
    assert abs(shifts[0] - 500.0) < 1e-9  # 463.7 quantizes to 500
    assert np.array_equal(out_q.vuv, track.vuv)


@criterion(3, "training-table composition totals")
def test_criterion_03():
    manifest = read_manifest(reference_manifest_path())
    expected = {"final": 750.14, "v2_ssmix_en": 631.79,
                "v3_sing_langmix": 122.56, "v1_sing_en": 4.21}
    for name, hours in expected.items():
        selected, total = compose_training_set(manifest, canonical_spec(name))
        assert abs(total - hours) <= 0.01, (name, total)
        speakers = {e.speaker for e in selected}
        assert set(SVCC_TARGET_SPEAKERS) <= speakers, name


def _exact_sampler_moments(mu0, sigma0, sched):
    """Independent oracle: the reverse chain with the Gaussian-posterior
    denoiser is linear, so the sampler's output mean and variance follow a
    closed per-coordinate recursion from the N(0, 1) start."""
    mean, var = np.zeros_like(mu0), 1.0
    for t in range(sched.num_steps, 0, -1):
        beta, alpha, ab = sched.at(t)
        denom = ab * sigma0 ** 2 + 1.0 - ab
        c1 = sigma0 ** 2 * math.sqrt(ab) / denom
        c0 = (1.0 - ab) / denom  # coefficient on mu0 in x0_hat
        e1 = (1.0 - math.sqrt(ab) * c1) / math.sqrt(1.0 - ab)
        e0 = -math.sqrt(ab) * c0 / math.sqrt(1.0 - ab)
        k1 = (1.0 - beta / math.sqrt(1.0 - ab) * e1) / math.sqrt(alpha)
        k0 = -(beta / math.sqrt(1.0 - ab)) * e0 / math.sqrt(alpha)
        mean = k1 * mean + k0 * mu0
        var = k1 ** 2 * var + (beta if t > 1 else 0.0)
    return mean, var


@criterion(4, "sampler recovers Gaussian target moments")
def test_criterion_04():
    sched = linear_schedule()  # T = 100
    mu0 = np.array([0.04, -0.04, 0.02, 0.0, -0.02, 0.04, -0.04, 0.0])
    sigma0 = 1.0
    denoiser = analytic_gaussian_denoiser(mu0, sigma0, sched)
    cond = ConditionSet(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros(1))

    start = time.perf_counter()
    draws = sample(denoiser, sched, cond, w=1.0, dim=(10_000, 8), seed=2024)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    mean = draws.mean(axis=0)
    var = draws.var(axis=0)
    assert np.max(np.abs(mean - mu0)) < 0.05 * sigma0
    assert np.max(np.abs(var / sigma0 ** 2 - 1.0)) < 0.10

    # sharper check against the exact linear-Gaussian recursion: the
    # Monte-Carlo moments must match it within sampling error
    exact_mean, exact_var = _exact_sampler_moments(mu0, sigma0, sched)
    se_mean = math.sqrt(exact_var / 10_000)
    se_var = exact_var * math.sqrt(2.0 / 10_000)
    assert np.max(np.abs(mean - exact_mean)) < 5 * se_mean
    assert np.max(np.abs(var - exact_var)) < 5 * se_var


@criterion(5, "classifier-free guidance identities")
def test_criterion_05():
    cond_dim = ConditionSet(np.zeros((1, 2)), np.zeros((1, 2)),
                            np.zeros(1)).summary.size
    model = ToyDenoiser(dim=6, cond_dim=cond_dim, speaker_dim=4, seed=12)
    cond = ConditionSet(np.ones((1, 2)), np.zeros((1, 2)), np.zeros(1),
                        speaker_embedding=pseudo_speaker_embedding(9, 4))
    rng = np.random.default_rng(3)
    x_t = rng.normal(size=6)

    eps_c = model.predict_eps(x_t, 40, cond, unconditional=False)
    eps_u = model.predict_eps(x_t, 40, cond, unconditional=True)
    assert np.array_equal(guided_eps(model, x_t, 40, cond, w=1.0), eps_c)
    assert np.array_equal(guided_eps(model, x_t, 40, cond, w=0.0), eps_u)
    for w in (-0.5, 0.3, 1.7, 2.9):
        got = guided_eps(model, x_t, 40, cond, w=w)
        want = eps_u + w * (eps_c - eps_u)
        assert np.max(np.abs(got - want)) < 1e-12


def _toy_setup(seed):
    rng = np.random.default_rng(seed)
    conds = []
    for k in range(4):
        conds.append(ConditionSet(
            linguistic=rng.normal(size=(3, 5)),
            log_f0_vuv=rng.normal(size=(3, 2)),
            loudness=rng.normal(size=3),
            speaker_embedding=pseudo_speaker_embedding(seed + k, 3),
        ))
    dataset = [(rng.normal(size=4), cond) for cond in conds]
    model = ToyDenoiser(dim=4, cond_dim=conds[0].summary.size,
                        speaker_dim=3, seed=seed)
    return model, dataset


@criterion(6, "CLN-only fine-tuning contract")
def test_criterion_06():
    sched = linear_schedule()
    model, dataset = _toy_setup(60)
    train_toy(model, dataset, sched, TrainConfig(steps=400, lr=2e-3, seed=61))

    target = pseudo_speaker_embedding(600, 3)
    shifted = [(x0 + 1.0, cond) for x0, cond in dataset]
    non_cln = [n for n in model.params if n not in CLN_PARAM_NAMES]
    rest_hash = model.param_hash(non_cln)
    loss_before = evaluate_l2(model, shifted, sched, embedding=target)

    finetune_cln(model, shifted, sched, iterations=500,
                 target_embedding=target, lr=2e-3, seed=62)

    assert model.param_hash(non_cln) == rest_hash
    assert evaluate_l2(model, shifted, sched, embedding=target) < loss_before


@criterion(7, "contrastive ramp and loss isolation")
def test_criterion_07():
    assert ramp_weight(100_000) == 1.0

    sched = linear_schedule()
    model_a, dataset = _toy_setup(70)
    hist_a = train_toy(model_a, dataset, sched,
                       TrainConfig(steps=150, lr=1e-3, p_uncond=0.1, seed=71))

    # reference pure-L2 loop mirroring the documented RNG draw order
    model_b, _ = _toy_setup(70)
    rng = np.random.default_rng(71)
    hist_b = np.empty(150)
    for n in range(150):
        x0, cond = dataset[int(rng.integers(len(dataset)))]
        t = int(rng.integers(1, sched.num_steps + 1))
        eps = rng.standard_normal(x0.shape)
        drop = rng.random() < 0.1
        loss, grads = model_b.l2_loss_and_grads(
            q_sample(x0, t, eps, sched), t, cond, eps, unconditional=drop)
        for name, grad in grads.items():
            model_b.params[name] -= 1e-3 * grad
        hist_b[n] = loss
    assert np.array_equal(hist_a, hist_b)
    assert model_a.param_hash() == model_b.param_hash()


@criterion(8, "perturbation invariants")
def test_criterion_08():
    def median_f0(clip):
        track = estimate_f0(clip)
        return np.median(track.f0_hz[track.vuv])

    # formant shift preserves F0 within 3%
    vow = vowel(duration_sec=1.0)
    [shifted] = formant_shift(vow, [1.2])
    assert abs(median_f0(shifted) / median_f0(vow) - 1) <= 0.03

    # pitch randomization hits the commanded ratio within 3%,
    # duration within 1%
    saw = sawtooth(220, 1.0)
    up = pitch_randomize(saw, 1.5)
    assert abs(up.samples.size - saw.samples.size) <= 0.01 * saw.samples.size
    assert abs(median_f0(up) / (1.5 * 220.0) - 1) <= 0.03

    # EQ: LTI additivity within 1e-9 and center-frequency gain within 0.5 dB
    rng = np.random.default_rng(80)
    x = rng.normal(scale=0.1, size=12000)
    y = rng.normal(scale=0.1, size=12000)
    bands = [(800.0, 1.3, 5.0), (4000.0, 2.0, -7.0)]
    from svcforge.audio import AudioClip
    ex = parametric_eq(AudioClip(x, 24000), bands).samples
    ey = parametric_eq(AudioClip(y, 24000), bands).samples
    exy = parametric_eq(AudioClip(x + y, 24000), bands).samples
    assert np.max(np.abs(exy - (ex + ey))) < 1e-9
    for fc, q, gain in bands:
        b, a = peaking_biquad(fc, q, gain, 24000)
        got_db = 20 * math.log10(abs(freqz(b, a, worN=[fc], fs=24000)[1][0]))
        assert abs(got_db - gain) < 0.5


@criterion(9, "DSP anchors")
def test_criterion_09():
    assert abs(a_weight_db(1000.0)) <= 0.01

    fb = build_mel_filterbank()
    assert fb.shape[0] == 80
    assert np.all(fb >= 0)
    for row in fb:
        support = np.flatnonzero(row > 0)
        assert support.size >= 1
        peak = row.argmax()
        assert np.all(np.diff(row[support[0]:peak + 1]) >= -1e-12)
        assert np.all(np.diff(row[peak:support[-1] + 1]) <= 1e-12)
    freqs = CFG.bin_frequencies()
    interior = (freqs > 0) & (freqs < 12000.0)
    assert np.all(fb.sum(axis=0)[interior] > 0)

    for clip, f0 in [(sawtooth(220, 1.0), 220.0), (sine(440, 1.0), 440.0)]:
        track = estimate_f0(clip)
        voiced = track.f0_hz[track.vuv]
        assert abs(np.median(voiced) / f0 - 1) <= 0.01
        assert np.mean(np.abs(voiced / f0 - 1) < 0.1) >= 0.90


@criterion(10, "analytic gradients match finite differences")
def test_criterion_10():
    model, dataset = _toy_setup(90)
    x0, cond = dataset[0]
    sched = linear_schedule()
    rng = np.random.default_rng(91)
    eps = rng.standard_normal(4)
    x_t = q_sample(x0, 35, eps, sched)

    worst = 0.0
    for unconditional in (False, True):
        _, grads = model.l2_loss_and_grads(x_t, 35, cond, eps,
                                           unconditional=unconditional)
        for name, grad in grads.items():
            param = model.params[name]
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + 1e-5
                up, _ = model.l2_loss_and_grads(x_t, 35, cond, eps,
                                                unconditional=unconditional)
                param[idx] = orig - 1e-5
                down, _ = model.l2_loss_and_grads(x_t, 35, cond, eps,
                                                  unconditional=unconditional)
                param[idx] = orig
                fd = (up - down) / 2e-5
                rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6)
                worst = max(worst, rel)
    assert worst < 1e-4


@criterion(11, "CLI byte-reproducibility")
def test_criterion_11():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        wav_a = tmp / "a.wav"
        wav_b = tmp / "b.wav"
        wav_a.write_bytes(wav_bytes(sine(440, 0.5)))
        wav_b.write_bytes(wav_bytes(sawtooth(220, 0.5)))

        def quiet_cli(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli_main(argv)

        def extract(out_dir, jobs):
            code = quiet_cli(["extract", "--in", str(wav_a), "--in", str(wav_b),
                              "--out-dir", str(tmp / out_dir), "--jobs", jobs])
            assert code == 0
            return {p.name: p.read_bytes()
                    for p in sorted((tmp / out_dir).glob("*.svcf"))}

        first = extract("r1", "1")
        second = extract("r2", "1")
        parallel = extract("r4", "4")
        assert first == second == parallel

        def perturb(tag):
            out_a, out_b = tmp / f"{tag}a.wav", tmp / f"{tag}b.wav"
            code = quiet_cli(["perturb", "--in", str(wav_a), "--out-a", str(out_a),
                              "--out-b", str(out_b), "--seed", "9"])
            assert code == 0
            return out_a.read_bytes() + out_b.read_bytes()

        assert perturb("p1") == perturb("p2")

        def ddpm_sample(tag):
            out = tmp / f"{tag}.svcf"
            code = quiet_cli(["ddpm", "sample-oracle", "--mean", "0.2",
                              "--std", "0.5", "--out", str(out),
                              "--seed", "5", "--dim", "8"])
            assert code == 0
            return out.read_bytes()

        assert ddpm_sample("s1") == ddpm_sample("s2")

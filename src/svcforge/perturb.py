"""Information-perturbation transforms: formant shift, pitch randomization,
and a parametric equalizer, plus the seeded pair generator, which applies
two independently drawn chains of all three to one clip.

All three transforms alter speaker-correlated acoustics while leaving the
linguistic content (timing, F0 for formant shift/EQ) intact. Given the same
seed, `random_perturb_pair` is bit-reproducible.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults
from .audio import AudioClip, resample
from .errors import InvalidParameterError
from .features import FrameConfig, frame_blocks, hann, overlap_add, spectrum
from .pitch import semitones_to_ratio

# Formant and pitch ratios are limited to one octave either way.
RATIO_LO, RATIO_HI = 0.5, 2.0


@dataclass(frozen=True)
class PerturbConfig:
    """Seed of the random perturbation chains (their ranges are the table's)."""

    seed: int = 0


def peaking_biquad(fc_hz: float, q: float, gain_db: float,
                   sample_rate: int) -> tuple:
    """Peaking-EQ biquad (cookbook closed form) as the coefficients (b, a) of
    H(z) = (b[0] + b[1] z^-1 + b[2] z^-2) / (a[0] + a[1] z^-1 + a[2] z^-2),
    with a[0] == 1.

    |H| at fc equals 10^(gain_db/20) exactly; gain_db = 0 collapses to the
    identity filter. Jury's test, |a[2]| < 1 and |a[1]| < 1 + a[2], raises
    InvalidParameterError for a pole on or outside the unit circle and for an
    overflow (NaN); it parts from np.roots' moduli only at Q < 1e-3 or > 1e6.
    """
    if not 0 < fc_hz < sample_rate / 2:
        raise InvalidParameterError(f"fc must be in (0, Nyquist), got {fc_hz}")
    if q <= 0:
        raise InvalidParameterError("q must be positive")
    amp = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * fc_hz / sample_rate
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny q overflows alpha
        alpha = np.sin(w0) / (2.0 * q)
        a0 = 1.0 + alpha / amp
        b = np.array([1.0 + alpha * amp, -2.0 * np.cos(w0), 1.0 - alpha * amp]) / a0
        a = np.array([a0, -2.0 * np.cos(w0), 1.0 - alpha / amp]) / a0
    if not (abs(a[2]) < 1.0 and abs(a[1]) < 1.0 + a[2]):
        raise InvalidParameterError("unstable biquad: pole outside unit circle")
    return b, a


# The EQ cascade runs over blocks of this many samples: each block's output
# and end state are matrix products, and one Python step per block carries
# the cascade's state into the next block.
_EQ_BLOCK = 128


def _cascade_system(sections: list) -> tuple:
    """State space (A, B, C, D) of biquads (b, a) run one after another, each
    in transposed direct form II with states (z1, z2): from state s and input
    u, the output is C s + D u and the next state A s + B u."""
    n = 2 * len(sections)
    a_mat, b_vec, c_vec, d = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0
    for i, (b, a) in enumerate(sections):
        k = 2 * i
        gain = np.array([b[1] - a[1] * b[0], b[2] - a[2] * b[0]])
        a_mat[k:k + 2, :k] = np.outer(gain, c_vec[:k])  # the section reads C s + D u
        a_mat[k:k + 2, k:k + 2] = [[-a[1], 1.0], [-a[2], 0.0]]
        b_vec[k:k + 2] = gain * d
        c_vec[:k] *= b[0]
        c_vec[k] = 1.0
        d *= b[0]
    return a_mat, b_vec, c_vec, d


def parametric_eq(clip: AudioClip, bands: list) -> AudioClip:
    """Cascade of peaking filters; bands are (fc_hz, q, gain_db) triples.

    The biquads run as one state-space system over blocks of _EQ_BLOCK
    samples. Each block's response to its own input is a product with the
    cascade's lower-triangular Toeplitz impulse-response matrix; the state
    it hands on is a product with the rows A^m B, and the block's response
    to the state it receives one with the rows C A^m. The powers of A are
    built by the same one-step recurrence as the per-sample filter, so the
    output matches filtering each section in turn to within about 1e-13 of
    its peak. An empty clip or band list returns a copy of the input.
    """
    sections = [peaking_biquad(fc, q, gain_db, clip.sample_rate) for fc, q, gain_db in bands]
    x = clip.samples
    if not sections or x.size == 0:
        return AudioClip(x.copy(), clip.sample_rate)
    a_mat, b_vec, c_vec, d = _cascade_system(sections)
    block = _EQ_BLOCK
    powers = np.empty((block + 1,) + a_mat.shape)  # powers[m] = A^m
    powers[0] = np.eye(len(a_mat))
    for m in range(block):
        a_mat.dot(powers[m], out=powers[m + 1])
    from_state = c_vec @ powers[:block]  # row m: C A^m
    to_state = powers[block - 1::-1] @ b_vec  # row j: A^(block - 1 - j) B
    impulse = np.concatenate([[d], from_state[:block - 1] @ b_vec])
    # toeplitz[j, m] = impulse[m - j], and 0 for m < j
    toeplitz = np.ascontiguousarray(sliding_window_view(
        np.concatenate([np.zeros(block - 1), impulse]), block)[::-1])

    blocks = np.zeros(-(-x.size // block) * block)
    blocks[:x.size] = x
    blocks = blocks.reshape(-1, block)
    states = np.zeros((len(blocks), len(a_mat)))  # states[k]: the state block k starts from
    states[1:] = blocks[:-1] @ to_state
    carry, state = powers[block].dot, states[0]  # a bound ndarray.dot costs less per call than @
    for row in states[1:]:
        row += carry(state)
        state = row
    y = blocks @ toeplitz
    y += states @ from_state.T
    return AudioClip(y.reshape(-1)[:x.size], clip.sample_rate)


# 1024-point frames, quarter-window hop, periodic Hann on both analysis and
# synthesis (COLA at this hop), so the rho = 1 path is a clean round trip.
_FORMANT_FRAMES = FrameConfig(hop=256, win_length=1024, fft_size=1024)

# Frames per formant kernel: a multiple of 16, so the FFT groups rows as it
# would over the whole clip; small enough that a pair's two threads share
# even a short clip's blocks.
_FORMANT_BLOCK = 64


def formant_shift(clip: AudioClip, rhos: list, map=map) -> list:
    """Warp the spectral envelope by each ratio in `rhos` while keeping F0
    and timing; one output clip per ratio, in order.

    Per frame the log magnitude (floored at 1e-10) is cepstrally smoothed
    (1.25 ms quefrency cutoff) into an envelope, whose frequency axis is
    resampled at f / rho (clamped at the edges); the complex spectrum is
    scaled by exp(warped envelope - envelope) and overlap-added back with
    the squared window as weight. Every ratio is checked first.

    The padded clip is cut into blocks of _FORMANT_BLOCK frames. One kernel
    per block runs the analysis up to the envelope once and returns every
    ratio's windowed frames; `map` runs the kernels (a thread pool's `map`
    runs blocks in parallel), and `overlap_add` adds them in block order.
    Output i equals `formant_shift(clip, [rhos[i]])[0]` and no whole-clip
    spectrogram is held. The clip must be at the canonical rate
    (InvalidParameterError otherwise).
    """
    for rho in rhos:
        if not RATIO_LO <= rho <= RATIO_HI:
            raise InvalidParameterError(f"rho must be in [0.5, 2], got {rho}")
    cfg = _FORMANT_FRAMES
    n, n_fft, hop, win = clip.samples.size, cfg.fft_size, cfg.hop, cfg.window()
    x = np.concatenate([np.zeros(n_fft), clip.samples, np.zeros(2 * n_fft)])
    blocks = frame_blocks(AudioClip(x, clip.sample_rate), cfg, rows=_FORMANT_BLOCK)
    qcut = int(round(defaults.FORMANT_QUEFRENCY_CUTOFF_SEC * clip.sample_rate))
    query = np.arange(cfg.n_bins) / np.array(rhos, dtype=float).reshape(-1, 1)
    i0 = np.clip(np.floor(query).astype(int), 0, cfg.n_bins - 1)
    i1 = np.minimum(i0 + 1, cfg.n_bins - 1)
    frac = np.clip(query - i0, 0.0, 1.0)

    def block(frames):
        spec = spectrum(frames, cfg)
        env = np.fft.irfft(np.log(np.maximum(np.abs(spec), 1e-10)), n=n_fft, axis=1)
        env[:, qcut + 1:n_fft - qcut] = 0.0  # the liftered cepstrum, then its envelope
        env = np.fft.rfft(env, axis=1).real
        outs = np.empty((len(rhos),) + frames.shape)
        for out, lo, hi, f in zip(outs, i0, i1, frac):
            gain = env[:, lo]  # exp(warped envelope - envelope), in place
            gain *= 1.0 - f
            gain += env[:, hi] * f
            gain -= env
            np.exp(gain, out=gain)
            np.multiply(np.fft.irfft(spec * gain, n=n_fft)[:, :cfg.win_length], win, out=out)
        return outs

    size = -(-x.size // hop) * hop  # the frames end within x
    ys = overlap_add(map(block, blocks), hop, win ** 2, (len(rhos), size))
    return [AudioClip(y[n_fft:n_fft + n], clip.sample_rate) for y in ys]


# WSOLA segments gathered, windowed and overlap-added at a time, so a long
# take's segments are never all held, even by two chains at once.
_WSOLA_BLOCK = 64


def _wsola_stretch(x: np.ndarray, target_len: int, sample_rate: int) -> np.ndarray:
    """Waveform-similarity overlap-add time stretch to `target_len` samples.

    25 ms Hann segments at 50% synthesis overlap; each analysis segment may
    slide +/- 7.5 ms to best continue the previous one (cross-correlation).
    The chosen segments are windowed _WSOLA_BLOCK at a time for
    `overlap_add`, with the window as weight.
    """
    seg = int(round(defaults.WSOLA_SEGMENT_SEC * sample_rate))
    search = int(round(defaults.WSOLA_SEARCH_SEC * sample_rate))
    hop = seg // 2
    win = hann(seg)
    scale = len(x) / target_len

    xp = np.concatenate([x, np.zeros(seg + search + 1)])
    n_frames = int(np.ceil(target_len / hop))
    pos = np.empty(n_frames, dtype=np.intp)
    prev = 0
    for m in range(n_frames):
        start = min(int(round(m * hop * scale)), len(x) - 1)
        if m > 0:
            ref = xp[prev + hop:prev + hop + seg]
            lo = max(0, start - search)
            hi = min(max(len(x) - 1, 1), start + search)
            corr = np.correlate(xp[lo:hi + seg], ref, mode="valid")
            start = lo + int(np.argmax(corr))
        pos[m] = prev = start
    n_rows = max(n_frames - 1 + -(-seg // hop), -(-target_len // hop))
    segments = sliding_window_view(xp, seg)
    blocks = (segments[pos[i:i + _WSOLA_BLOCK]] for i in range(0, n_frames, _WSOLA_BLOCK))
    windowed = (np.multiply(block, win, out=block) for block in blocks)
    return overlap_add(windowed, hop, win, n_rows * hop)[:target_len]


def pitch_randomize(clip: AudioClip, ratio: float) -> AudioClip:
    """Scale F0 by `ratio` while keeping the original duration.

    Resamples the waveform to an inner rate of sample_rate / ratio (pitch
    and duration both move), then WSOLA-stretches back to the input length.

    The inner rate is snapped to a 100 Hz grid (PITCH_INNER_RATE_STEP_HZ),
    which keeps the resampler's reduced up/down factors at or below 480 at
    24 kHz instead of up to tens of thousands. The realised ratio,
    sample_rate / inner_rate, is therefore quantised: at 24 kHz it is
    within 7.3 cents of `ratio` (worst case near ratio 2, inner rate
    12 kHz). An empty clip comes back empty.
    """
    if not RATIO_LO <= ratio <= RATIO_HI:
        raise InvalidParameterError(f"ratio must be in [0.5, 2], got {ratio}")
    if ratio == 1.0 or clip.samples.size == 0:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    step = defaults.PITCH_INNER_RATE_STEP_HZ
    inner_rate = step * round(clip.sample_rate / ratio / step)
    shifted = resample(clip, inner_rate)
    stretched = _wsola_stretch(shifted.samples, clip.samples.size, clip.sample_rate)
    return AudioClip(stretched, clip.sample_rate)


def random_perturb_pair(clip: AudioClip, cfg: PerturbConfig) -> tuple:
    """Two independently drawn perturbation chains applied to one clip.

    Each chain draws (formant ratio, pitch semitones, per-band EQ Q and
    gain; bands log-spaced from 60 Hz to 10 kHz) from the defaults table's
    ranges and applies formant shift, then pitch randomization, then the EQ.
    Both chains are drawn first; one `formant_shift` call serves both.
    Draw order is fixed, so a given (clip, cfg) pair is bit-reproducible.

    The work runs on two threads: the formant shifter's blocks, then the
    two chains' pitch randomization and EQ, one chain a thread. Nothing is
    shared between the chains and the blocks are added in order, so the
    pair has the same bytes as running each stage one after the other.
    """
    rng = np.random.default_rng(cfg.seed)
    centers = np.geomspace(defaults.EQ_FC_LO_HZ, defaults.EQ_FC_HI_HZ, defaults.EQ_BANDS)

    def draw():
        rho = rng.uniform(defaults.FORMANT_RATIO_LO, defaults.FORMANT_RATIO_HI)
        semis = rng.uniform(defaults.PITCH_SEMITONE_LO, defaults.PITCH_SEMITONE_HI)
        bands = [
            (fc, rng.uniform(defaults.EQ_Q_LO, defaults.EQ_Q_HI),
             rng.uniform(defaults.EQ_GAIN_LO_DB, defaults.EQ_GAIN_HI_DB))
            for fc in centers
        ]
        return rho, semis, bands

    def finish(shifted, chain):
        _, semis, bands = chain
        return parametric_eq(pitch_randomize(shifted, semitones_to_ratio(semis)), bands)

    chains = (draw(), draw())
    with ThreadPoolExecutor(2) as pool:
        shifted = formant_shift(clip, [rho for rho, _, _ in chains], map=pool.map)
        return tuple(pool.map(finish, shifted, chains))

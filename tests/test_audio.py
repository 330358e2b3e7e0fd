import struct
import subprocess
import sys
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import firwin, resample_poly

from svcforge import defaults
from svcforge.audio import (_RESAMPLE_MAP_ENTRIES, AudioClip, _run_span, _output_runs,
                            read_wav, resample, wav_bytes)
from svcforge.errors import FormatError, InvalidParameterError, MissingFileError
from synth import sine


def _pcm16_wav(samples, rate=24000, channels=1):
    data = np.asarray(samples, dtype="<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate,
                                 rate * 2 * channels, 2 * channels, 16)
    hdr += b"data" + struct.pack("<I", len(data))
    return hdr + data


def test_pcm16_scaling(tmp_path):
    p = tmp_path / "x.wav"
    p.write_bytes(_pcm16_wav([0, 16384, -32768]))
    clip = read_wav(p)
    assert clip.sample_rate == 24000
    assert np.allclose(clip.samples, [0.0, 0.5, -1.0])


def test_stereo_mixdown(tmp_path):
    p = tmp_path / "st.wav"
    p.write_bytes(_pcm16_wav([32767, 0], channels=2))  # L=~1.0, R=0.0
    clip = read_wav(p)
    assert clip.samples.shape == (1,)
    assert abs(clip.samples[0] - 0.5) < 1e-3


def test_float32_wav(tmp_path):
    vals = np.array([0.25, -0.5], dtype="<f4")
    data = vals.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
    hdr += b"data" + struct.pack("<I", len(data))
    p = tmp_path / "f.wav"
    p.write_bytes(hdr + data)
    clip = read_wav(p)
    assert np.allclose(clip.samples, [0.25, -0.5])
    assert clip.sample_rate == 16000


def test_pcm24_scaling(tmp_path):
    # one frame at exactly half scale: 0x400000 = 2^22
    data = bytes([0x00, 0x00, 0x40])
    hdr = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 24000, 72000, 3, 24)
    hdr += b"data" + struct.pack("<I", len(data))
    p = tmp_path / "p24.wav"
    p.write_bytes(hdr + data)
    assert np.allclose(read_wav(p).samples, [0.5])


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_wav(tmp_path / "nope.wav")


def test_truncated_header(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(_pcm16_wav([0, 0])[:20])
    with pytest.raises(FormatError, match="truncated b'fmt ' chunk"):
        read_wav(p)


def test_unsupported_encoding(tmp_path):
    blob = bytearray(_pcm16_wav([0]))
    struct.pack_into("<H", blob, 20, 7)  # mu-law format tag
    p = tmp_path / "ulaw.wav"
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="format tag 7 at 16 bits is not supported"):
        read_wav(p)


def _wav(fmt_body, data):
    fmt = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + bytes(len(fmt_body) & 1)
    chunks = fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt_body(tag, channels, bits, rate=44100):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)


def _wav_with_a_second(chunk):
    """A 24 kHz mono 16-bit WAV of 2,400 samples, followed by a second
    `chunk` chunk: a 'fmt ' at 48 kHz, or a 'data' of 1,200 samples. Each
    reading alone is long enough to analyse."""
    body = _fmt_body(1, 1, 16, rate=48000) if chunk == b"fmt " else bytes(2400)
    chunks = _wav(_fmt_body(1, 1, 16, rate=24000), bytes(4800))[12:]
    chunks += chunk + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize("chunk", [b"fmt ", b"data"], ids=["fmt", "data"])
def test_repeated_chunk_is_malformed(tmp_path, chunk):
    p = tmp_path / "twice.wav"
    p.write_bytes(_wav_with_a_second(chunk))
    with pytest.raises(FormatError, match=f"more than one {chunk!r} chunk"):
        read_wav(p)


@pytest.mark.parametrize("channels, bits, align", [(1, 24, 4), (2, 16, 2)],
                         ids=["pcm24-in-4-byte-containers", "stereo-pcm16-at-mono-align"])
def test_block_align_that_disagrees_with_the_format_is_malformed(tmp_path, channels, bits,
                                                                 align):
    # 48 bytes: 12 frames of `align` bytes, which the format's frames would misread
    fmt = struct.pack("<HHIIHH", 1, channels, 24000, 24000 * align, align, bits)
    p = tmp_path / "misaligned.wav"
    p.write_bytes(_wav(fmt, bytes(range(48))))
    with pytest.raises(FormatError,
                       match=f"block align {align} is not {channels} x {bits // 8} bytes"):
        read_wav(p)


_PCM_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_body(subformat, channels, bits, guid_tail=_PCM_GUID_TAIL):
    return (_fmt_body(0xFFFE, channels, bits)
            + struct.pack("<HHI", 22, bits, 0x3 if channels == 2 else 0x4)
            + struct.pack("<H", subformat) + guid_tail)


@pytest.mark.parametrize("tag, bits, channels", [(1, 24, 2), (1, 16, 1), (3, 32, 2)],
                         ids=["pcm24-stereo", "pcm16-mono", "float32-stereo"])
def test_extensible_reads_equal_to_its_plain_twin(tmp_path, tag, bits, channels):
    rng = np.random.default_rng(bits)
    if tag == 3:
        data = rng.uniform(-1, 1, 50 * channels).astype("<f4").tobytes()
    else:
        data = rng.integers(0, 256, 50 * channels * bits // 8, dtype=np.uint8).tobytes()
    plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
    plain.write_bytes(_wav(_fmt_body(tag, channels, bits), data))
    ext.write_bytes(_wav(_extensible_body(tag, channels, bits), data))
    a, b = read_wav(plain), read_wav(ext)
    assert b.sample_rate == a.sample_rate == 44100
    assert a.samples.size == 50
    assert np.array_equal(a.samples, b.samples)


def _reference_samples(data, tag, bits, channels):
    """Whole-array decode: integers scaled by 2^(bits-1), stereo averaged."""
    if bits == 24:
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        x = np.where(v >= 1 << 23, v - (1 << 24), v) / 8388608.0
    elif bits == 16:
        x = np.frombuffer(data, dtype="<i2") / 32768.0
    else:
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return x.reshape(-1, 2).mean(axis=1) if channels == 2 else x


@pytest.mark.parametrize("tag, bits", [(1, 16), (1, 24), (3, 32)], ids=["pcm16", "pcm24", "float32"])
@pytest.mark.parametrize("channels", [1, 2])
def test_samples_equal_the_whole_array_decode_to_the_bit(tmp_path, tag, bits, channels):
    rng = np.random.default_rng(bits + channels)
    if tag == 3:
        data = rng.uniform(-1, 1, 999 * channels).astype("<f4")
        data[:6] = [-0.0, -0.0, -0.0, 0.0, 0.0, -0.0]  # signed zeros in each pairing
        data = data.tobytes()
    else:
        width = bits // 8
        extremes = bytes([0x00, 0x80] if bits == 16 else [0x00, 0x00, 0x80]) \
            + bytes([0xFF, 0x7F] if bits == 16 else [0xFF, 0xFF, 0x7F]) + bytes(width * 2)
        data = extremes + rng.integers(0, 256, 995 * channels * width, dtype=np.uint8).tobytes()
    p = tmp_path / "x.wav"
    p.write_bytes(_wav(_fmt_body(tag, channels, bits), data))
    got = read_wav(p).samples
    assert got.tobytes() == _reference_samples(data, tag, bits, channels).tobytes()


def _stereo(left, right):
    """A 24 kHz stereo float32 WAV's bytes, and numpy's mean of each frame's pair."""
    frames = np.stack([left, right], axis=1).astype("<f4")
    blob = _wav(_fmt_body(3, 2, 32, rate=24000), frames.tobytes())
    return blob, frames.astype(np.float64).mean(axis=1)


@pytest.mark.parametrize("gain", [-1.0, -0.85], ids=["exact", "0.65-percent"])
def test_anti_phase_stereo_is_refused(tmp_path, gain):
    p = tmp_path / "anti.wav"
    x = sine(220, 1.0).samples
    p.write_bytes(_stereo(x, gain * x)[0])
    with pytest.raises(FormatError) as exc:
        read_wav(p)
    assert str(exc.value) == f"{p}: its stereo channels cancel out in the mono mix"


_RNG = np.random.default_rng(11)
_TONE = sine(220, 1.0).samples
_NOISE = _RNG.standard_normal((2, 24000)) * 0.1


@pytest.mark.parametrize("left, right", [
    (_TONE, _TONE),  # in phase: the mix keeps all of the energy
    (_NOISE[0], _NOISE[1]),  # uncorrelated: about half
    (_TONE, np.zeros(24000)),  # one silent channel: exactly half
    (np.zeros(24000), np.zeros(24000)),  # silence: nothing to lose
    (_TONE * 1.1, _TONE * 0.9),  # perfbench's stereo takes
    (_TONE, _TONE * -0.8),  # nearly anti-phase, but 1.2 % of the mean energy survives
], ids=["in-phase", "uncorrelated", "one-silent-channel", "all-zero", "1.1-0.9",
        "anti-phase-at-1.2-percent"])
def test_stereo_that_keeps_its_energy_reads_to_the_bit(tmp_path, left, right):
    p = tmp_path / "st.wav"
    blob, mix = _stereo(left, right)
    p.write_bytes(blob)
    assert read_wav(p).samples.tobytes() == mix.tobytes()


def test_read_peak_memory_is_a_small_multiple_of_the_samples(tmp_path):
    # 10 s of 48 kHz 24-bit stereo; a decode through [n, 3] int32 arrays peaked at 8.5x
    rng = np.random.default_rng(4)
    p = tmp_path / "long.wav"
    p.write_bytes(_wav(_fmt_body(1, 2, 24, rate=48000),
                       rng.integers(0, 256, 480000 * 2 * 3, dtype=np.uint8).tobytes()))
    tracemalloc.start()
    try:
        clip = read_wav(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.samples.size == 480000
    assert peak <= 4 * clip.samples.nbytes


@pytest.mark.parametrize("size", [16, 18, 24, 39])
def test_extensible_fmt_shorter_than_40_bytes_is_malformed(tmp_path, size):
    p = tmp_path / "short.wav"
    p.write_bytes(_wav(_extensible_body(1, 1, 16)[:size], b"\0\0"))
    with pytest.raises(FormatError, match="extensible fmt chunk shorter than 40 bytes"):
        read_wav(p)


@pytest.mark.parametrize("subformat, bits, guid_tail", [
    (7, 8, _PCM_GUID_TAIL),
    (1, 32, _PCM_GUID_TAIL),
    (3, 64, _PCM_GUID_TAIL),
    (1, 16, bytes(14)),
], ids=["mulaw", "pcm32", "float64", "not-a-ksdataformat-guid"])
def test_extensible_other_subformats_unsupported(tmp_path, subformat, bits, guid_tail):
    p = tmp_path / "other.wav"
    p.write_bytes(_wav(_extensible_body(subformat, 1, bits, guid_tail), bytes(bits // 8 * 4)))
    with pytest.raises(FormatError, match="is not supported"):
        read_wav(p)


def test_write_roundtrip_sine(tmp_path):
    clip = sine(440, 1.0, amplitude=0.9)
    p = tmp_path / "s.wav"
    p.write_bytes(wav_bytes(clip))
    back = read_wav(p)
    assert back.sample_rate == clip.sample_rate
    assert np.max(np.abs(back.samples - clip.samples)) <= 2.0 ** -15


def test_write_empty_clip(tmp_path):
    p = tmp_path / "e.wav"
    p.write_bytes(wav_bytes(AudioClip(np.zeros(0), 24000)))
    back = read_wav(p)
    assert back.samples.size == 0


def test_write_clamps_full_scale(tmp_path):
    p = tmp_path / "c.wav"
    p.write_bytes(wav_bytes(AudioClip(np.array([1.0, -1.5]), 24000)))
    raw = p.read_bytes()
    vals = np.frombuffer(raw[-4:], dtype="<i2")
    assert vals[0] == 32767
    assert vals[1] == -32768


def test_clip_validation():
    with pytest.raises(InvalidParameterError):
        AudioClip(np.array([0.0, np.nan]), 24000)
    with pytest.raises(InvalidParameterError):
        AudioClip(np.zeros((2, 2)), 24000)
    with pytest.raises(InvalidParameterError):
        AudioClip(np.zeros(4), 0)
    with pytest.raises(InvalidParameterError, match="target_rate"):
        resample(AudioClip(np.zeros(4), 24000), 0)


def test_resample_identity():
    clip = sine(440, 0.25)
    out = resample(clip, clip.sample_rate)
    assert out.sample_rate == clip.sample_rate
    assert np.array_equal(out.samples, clip.samples)


def test_resample_duration():
    clip = sine(440, 1.0, sample_rate=48000)
    out = resample(clip, 24000)
    assert abs(out.samples.size - 24000) <= 1


@pytest.mark.parametrize("src,dst,freq", [
    (48000, 24000, 1000.0),
    (44100, 24000, 1000.0),
    (24000, 48000, 1000.0),
    (48000, 24000, 4500.0),  # close to 0.4x the narrower Nyquist
])
def test_resample_preserves_tone(src, dst, freq):
    clip = sine(freq, 1.0, sample_rate=src)
    out = resample(clip, dst)
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(out.samples.size)))
    peak_hz = np.argmax(spec) * dst / out.samples.size
    bin_hz = dst / out.samples.size
    assert abs(peak_hz - freq) < bin_hz
    # amplitude within 1% (interior RMS, away from filter edge effects)
    core = out.samples[2000:-2000]
    assert abs(np.sqrt(np.mean(core ** 2)) / (0.5 / np.sqrt(2)) - 1) < 0.01


def test_resample_filter_passes_dc_at_unit_gain_and_stops_aliases():
    # a constant keeps its mean level: the filter's DC gain is exactly 1. Each
    # polyphase branch's gain is off by up to 8e-6, so the mean runs over whole
    # cycles of the branches: 480 is a multiple of every `up` (80, 1, 160, 3)
    for rate in (44100, 48000, 22050, 16000):
        out = resample(AudioClip(np.ones(rate // 2), rate), 24000).samples[480:-480]
        assert out.size % 480 == 0 and abs(np.mean(out) - 1.0) < 1e-9, rate
    # a tone at 0.3x the input rate lies above the output's 12 kHz Nyquist
    # frequency and would alias; the Kaiser window's stopband holds it 80 dB down
    for rate in (44100, 48000):
        tone = sine(0.3 * rate, 0.5, sample_rate=rate)
        out = resample(tone, 24000).samples[500:-500]
        assert 20 * np.log10(np.std(out) / np.std(tone.samples)) < -80.0, rate


# the standard rates to 24 kHz, and three of perturb's inner rates from it
@pytest.mark.parametrize("src,dst", [
    *((rate, 24000) for rate in (44100, 48000, 22050, 16000, 11025, 8000, 96000, 88200, 768000)),
    (24000, 12100), (24000, 25400), (24000, 47900),
])
def test_resample_matches_resample_poly_with_the_firwin_filter(src, dst):
    g = gcd(src, dst)
    up, down = dst // g, src // g
    m = max(up, down)
    kernel = firwin(defaults.RESAMPLE_TAPS_PER_PHASE * m + 1, 1 / m,
                    window=("kaiser", defaults.RESAMPLE_KAISER_BETA))
    rng = np.random.default_rng(src + dst)
    for n in (1, 2, 5, 1000, 4099):
        x = rng.uniform(-1, 1, n)
        expected = resample_poly(x, up, down, window=kernel)
        out = resample(AudioClip(x, src), dst).samples
        assert out.shape == expected.shape, (n, out.shape, expected.shape)
        assert np.max(np.abs(out - expected)) < 1e-13, n


_THREAD_PROBE = """
import hashlib
import numpy as np
from svcforge.audio import AudioClip, resample
rng = np.random.default_rng(0)
h = hashlib.sha256()
for rate in (44100, 48000, 47900, 96000, 768000):
    h.update(resample(AudioClip(rng.uniform(-1, 1, 30000), rate), 24000).samples.tobytes())
print(h.hexdigest())
"""


def test_resampled_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a larger product over its threads, and the split moves bits
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for threads in ("1", "4"):
        result = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1


def test_resample_maps_stay_within_their_budget():
    # every rate README names to 24 kHz, every perturb inner rate from it, and
    # two extreme ratios
    rates = (8000, 11025, 16000, 22050, 44056, 44100, 47952, 48000, 50001, 88200, 96000,
             176400, 192000, 352800, 384000, 705600, 768000)
    pairs = [(24000 // gcd(r, 24000), r // gcd(r, 24000)) for r in rates]
    pairs += [(r // gcd(r, 24000), 24000 // gcd(r, 24000)) for r in range(12000, 48001, 100)]
    for up, down in pairs + [(1, 48000), (24000, 47999)]:
        taps = defaults.RESAMPLE_TAPS_PER_PHASE * max(up, down) + 1
        period, runs = _output_runs(up, down, taps)
        for run in range(runs):  # each run of a period has its own map
            k0, k1 = period * run // runs, period * (run + 1) // runs
            entries = (k1 - k0) * _run_span(k0, k1 - k0, up, down, taps)[1]
            assert entries <= max(-(-taps // up), _RESAMPLE_MAP_ENTRIES) <= max(taps, 1 << 20), \
                (up, down, run)


@pytest.mark.parametrize("rate", [8000, 11025, 44056, 44100, 47952, 48000, 88200, 96000,
                                  192000, 768000])
def test_resample_accepts_common_and_odd_rates(rate):
    for n in (rate // 10, 0):  # an empty clip gives an empty clip
        out = resample(AudioClip(np.zeros(n), rate), 24000)
        assert out.sample_rate == 24000
        assert out.samples.dtype == np.float64
        assert out.samples.shape == (-(-n * 24000 // rate),)


@pytest.mark.parametrize("rate", [48001, 50003, 1000003])
def test_resample_rejects_a_ratio_too_fine_to_filter(rate):
    # each is coprime with 24,000, so the kernel would need 64 * rate taps
    for samples in (np.zeros(rate // 10), np.zeros(0)):
        with pytest.raises(InvalidParameterError, match="reduced ratio"):
            resample(AudioClip(samples, rate), 24000)


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_resample_linearity(scale):
    clip = sine(313, 0.2, sample_rate=48000, amplitude=0.8)
    base = resample(clip, 24000).samples
    scaled = resample(AudioClip(scale * clip.samples, 48000), 24000).samples
    assert np.max(np.abs(scaled - scale * base)) < 1e-9


@given(st.lists(st.floats(min_value=-1 + 2 ** -14, max_value=1 - 2 ** -14),
                min_size=1, max_size=64))
def test_wav_roundtrip_quantization_bound(tmp_path_factory, samples):
    clip = AudioClip(np.array(samples), 24000)
    p = tmp_path_factory.mktemp("wav") / "q.wav"
    p.write_bytes(wav_bytes(clip))
    back = read_wav(p)
    assert np.max(np.abs(back.samples - clip.samples)) <= 2.0 ** -15

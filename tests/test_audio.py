import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from svcforge.audio import AudioClip, read_wav, resample, write_wav
from svcforge.errors import (
    InvalidParameterError,
    MalformedWavError,
    MissingFileError,
    UnsupportedEncodingError,
)
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
    with pytest.raises(MalformedWavError):
        read_wav(p)


def test_unsupported_encoding(tmp_path):
    blob = bytearray(_pcm16_wav([0]))
    struct.pack_into("<H", blob, 20, 7)  # mu-law format tag
    p = tmp_path / "ulaw.wav"
    p.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedEncodingError):
        read_wav(p)


def _wav(fmt_body, data):
    fmt = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + bytes(len(fmt_body) & 1)
    chunks = fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt_body(tag, channels, bits, rate=44100):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)


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


@pytest.mark.parametrize("size", [16, 18, 24, 39])
def test_extensible_fmt_shorter_than_40_bytes_is_malformed(tmp_path, size):
    p = tmp_path / "short.wav"
    p.write_bytes(_wav(_extensible_body(1, 1, 16)[:size], b"\0\0"))
    with pytest.raises(MalformedWavError):
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
    with pytest.raises(UnsupportedEncodingError):
        read_wav(p)


def test_write_roundtrip_sine(tmp_path):
    clip = sine(440, 1.0, amplitude=0.9)
    p = tmp_path / "s.wav"
    write_wav(clip, p)
    back = read_wav(p)
    assert back.sample_rate == clip.sample_rate
    assert np.max(np.abs(back.samples - clip.samples)) <= 2.0 ** -15


def test_write_empty_clip(tmp_path):
    p = tmp_path / "e.wav"
    write_wav(AudioClip(np.zeros(0), 24000), p)
    back = read_wav(p)
    assert back.samples.size == 0


def test_write_clamps_full_scale(tmp_path):
    p = tmp_path / "c.wav"
    write_wav(AudioClip(np.array([1.0, -1.5]), 24000), p)
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


@pytest.mark.parametrize("rate", [11025, 44056, 47952, 88200, 96000, 192000, 768000])
def test_resample_accepts_common_and_odd_rates(rate):
    n = rate // 10
    out = resample(AudioClip(np.zeros(n), rate), 24000)
    assert out.sample_rate == 24000
    assert out.samples.size == -(-n * 24000 // rate)


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
    write_wav(clip, p)
    back = read_wav(p)
    assert np.max(np.abs(back.samples - clip.samples)) <= 2.0 ** -15

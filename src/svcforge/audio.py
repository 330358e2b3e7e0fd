"""WAV I/O, mono mixdown, and polyphase resampling.

Everything downstream runs at the canonical 24 kHz rate; `resample` is the
only sanctioned way to get there. Clips are immutable values.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

from . import defaults
from .errors import (
    InvalidParameterError,
    MalformedWavError,
    UnsupportedEncodingError,
)
from .svcf import atomic_write_files, read_bytes


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform plus its sample rate. Amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise InvalidParameterError("clip must be mono (1-D samples)")
        if samples.size and not np.all(np.isfinite(samples)):
            raise InvalidParameterError("clip samples must be finite")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise InvalidParameterError("sample_rate must be a positive integer")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def duration_sec(self) -> float:
        return self.samples.size / self.sample_rate


_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# A KSDATAFORMAT_SUBTYPE_* GUID is a 16-bit format tag followed by these bytes.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_subformat(p: Path, fmt_body: bytes) -> int:
    """The format tag a WAVE_FORMAT_EXTENSIBLE fmt chunk's SubFormat GUID
    carries (1 for PCM, 3 for IEEE float, ...)."""
    if len(fmt_body) < 40:
        raise MalformedWavError(f"{p}: extensible fmt chunk shorter than 40 bytes")
    guid = fmt_body[24:40]
    if guid[2:] != _SUBFORMAT_GUID_TAIL:
        raise UnsupportedEncodingError(f"{p}: extensible sub-format {guid.hex()} is not supported")
    return struct.unpack_from("<H", guid)[0]


def read_wav(path: str | os.PathLike) -> AudioClip:
    """Read a RIFF/WAVE file (16/24-bit PCM or 32-bit float, mono or stereo).

    The format may also be given as WAVE_FORMAT_EXTENSIBLE with a PCM or
    IEEE-float sub-format. Stereo is averaged down to mono. Integer samples
    are scaled to [-1, 1] by 2^(bits-1). The clip keeps the file's native
    sample rate.
    """
    p = Path(path)
    blob = read_bytes(p, "file")
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedWavError(f"{p}: not a RIFF/WAVE file")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise MalformedWavError(f"{p}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise MalformedWavError(f"{p}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                fmt = (_extensible_subformat(p, body),) + fmt[1:]
        elif chunk_id == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or raw is None:
        raise MalformedWavError(f"{p}: missing fmt or data chunk")
    format_tag, channels, rate, _byte_rate, block_align, bits = fmt
    if rate <= 0:
        raise MalformedWavError(f"{p}: nonsensical sample rate {rate}")
    if channels not in (1, 2):
        raise UnsupportedEncodingError(f"{p}: {channels} channels (want 1 or 2)")

    if (format_tag, bits) not in ((1, 16), (1, 24), (3, 32)):
        raise UnsupportedEncodingError(
            f"{p}: format tag {format_tag} at {bits} bits is not supported"
        )
    if len(raw) % (bits // 8 * channels):
        raise MalformedWavError(f"{p}: data not a whole number of frames")
    if bits == 16:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        vals = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        vals = np.where(vals & 0x800000, vals - 0x1000000, vals)
        x = vals.astype(np.float64) / 8388608.0
    else:
        x = np.frombuffer(raw, dtype="<f4").astype(np.float64)

    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    return AudioClip(x, int(rate))


def wav_bytes(clip: AudioClip) -> bytes:
    """The 16-bit PCM WAV encoding of a clip. Out-of-range samples are clamped."""
    q = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    data = q.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(data))
    return header + data


def write_wav(clip: AudioClip, path: str | os.PathLike) -> None:
    """Write `wav_bytes(clip)` to `path`, atomically."""
    atomic_write_files({path: wav_bytes(clip)})


# `_lowpass_kernel` has 64 taps per unit of max(up, down). This bound admits
# every rate up to 48 kHz and the 44.1/48 kHz multiples up to 768 kHz, and
# refuses a rate coprime with the target, such as 1,000,003 Hz, before a
# gigabyte-sized kernel is built.
MAX_RESAMPLE_FACTOR = 48_000


def _lowpass_kernel(up: int, down: int) -> np.ndarray:
    """Kaiser-windowed sinc prototype for the polyphase resampler.

    64 taps per phase at the internal (upsampled) rate, cutoff at the
    narrower of the two Nyquist bands.
    """
    max_rate = max(up, down)
    half = (defaults.RESAMPLE_TAPS_PER_PHASE * max_rate) // 2
    n = np.arange(-half, half + 1)
    cutoff = 1.0 / (2.0 * max_rate)
    kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * n)
    return kernel * np.kaiser(kernel.size, defaults.RESAMPLE_KAISER_BETA)


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited rate conversion. Identity when rates already match.

    Output length is ceil(n * target / source), so duration is preserved
    to within one output sample. Rates whose reduced ratio up/down has
    max(up, down) above MAX_RESAMPLE_FACTOR are an InvalidParameterError.
    """
    if int(target_rate) != target_rate or target_rate <= 0:
        raise InvalidParameterError("target_rate must be a positive integer")
    target_rate = int(target_rate)
    if target_rate == clip.sample_rate:
        return clip
    g = gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    if max(up, down) > MAX_RESAMPLE_FACTOR:
        raise InvalidParameterError(
            f"cannot resample {clip.sample_rate} Hz to {target_rate} Hz: the reduced "
            f"ratio {up}/{down} has a term above {MAX_RESAMPLE_FACTOR}")
    if clip.samples.size == 0:
        return AudioClip(np.zeros(0), target_rate)
    from scipy.signal import resample_poly  # here, so importing the package stays cheap

    y = resample_poly(clip.samples, up, down, window=_lowpass_kernel(up, down))
    return AudioClip(y, target_rate)

"""WAV reading and encoding, mono mixdown, and polyphase resampling.

Everything downstream runs at the canonical 24 kHz rate; `resample` is the
only sanctioned way to get there. It computes `scipy.signal.resample_poly`'s
output, with the Kaiser filter `scipy.signal.firwin` designs, in numpy alone:
this module imports no scipy. Clips are immutable values.
"""

import os
import struct
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults
from .errors import FormatError, InvalidParameterError
from .svcf import read_bytes


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
        raise FormatError(f"{p}: extensible fmt chunk shorter than 40 bytes")
    guid = fmt_body[24:40]
    if guid[2:] != _SUBFORMAT_GUID_TAIL:
        raise FormatError(f"{p}: extensible sub-format {guid.hex()} is not supported")
    return struct.unpack_from("<H", guid)[0]


def read_wav(path: str | os.PathLike) -> AudioClip:
    """Read a RIFF/WAVE file (16/24-bit PCM or 32-bit float, mono or stereo).

    The format may also be given as WAVE_FORMAT_EXTENSIBLE with a PCM or
    IEEE-float sub-format. Stereo is averaged down to mono; a stereo file
    whose mix keeps under 1 % (-20 dB) of its channels' mean energy, such as
    one channel the negative of the other, is a FormatError. Integer samples
    are scaled to [-1, 1] by 2^(bits-1). The clip keeps the file's native
    sample rate.
    """
    p = Path(path)
    blob = read_bytes(p, "file")
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{p}: not a RIFF/WAVE file")

    fmt = None
    raw = None
    pos = 12
    view = memoryview(blob)  # chunk bodies are views, not copies
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = view[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"{p}: truncated {chunk_id!r} chunk")
        if (chunk_id == b"fmt " and fmt is not None) or (chunk_id == b"data" and raw is not None):
            raise FormatError(f"{p}: more than one {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise FormatError(f"{p}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _WAVE_FORMAT_EXTENSIBLE:
                fmt = (_extensible_subformat(p, body),) + fmt[1:]
        elif chunk_id == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or raw is None:
        raise FormatError(f"{p}: missing fmt or data chunk")
    format_tag, channels, rate, _byte_rate, block_align, bits = fmt
    if channels not in (1, 2):
        raise FormatError(f"{p}: {channels} channels (want 1 or 2)")

    if (format_tag, bits) not in ((1, 16), (1, 24), (3, 32)):
        raise FormatError(
            f"{p}: format tag {format_tag} at {bits} bits is not supported"
        )
    if block_align != channels * bits // 8:
        raise FormatError(f"{p}: block align {block_align} is not {channels} x {bits // 8} bytes")
    if len(raw) % block_align:
        raise FormatError(f"{p}: data not a whole number of frames")

    def channel(c: int) -> np.ndarray:
        """Channel c as float64, built and scaled in place, so the only
        full-length array is the result."""
        if bits == 24:  # little-endian bytes: value = signed top * 2^16 + mid * 2^8 + low
            b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3 * channels)[:, 3 * c:3 * c + 3]
            x = b[:, 2].view(np.int8).astype(np.float64)
            x *= 256.0
            x += b[:, 1]
            x *= 256.0
            x += b[:, 0]
            x /= 8388608.0
            return x
        x = np.frombuffer(raw, dtype="<i2" if bits == 16 else "<f4")[c::channels]
        x = x.astype(np.float64)
        if bits == 16:
            x /= 32768.0
        return x

    x = channel(0)
    if channels == 2:  # (0.0 + left + right) / 2, numpy's mean of the pair to the bit
        right = channel(1)
        energy = x @ x + right @ right
        x += 0.0
        x += right
        x /= 2.0
        if 200 * (x @ x) < energy:  # the mix keeps under 1 % of the channels' mean energy
            raise FormatError(f"{p}: its stereo channels cancel out in the mono mix")
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


# The resampler's filter has RESAMPLE_TAPS_PER_PHASE (64) taps per unit of
# max(up, down). This bound admits every rate up to 48 kHz and the 44.1/48 kHz
# multiples up to 768 kHz, and refuses a rate coprime with the target, such as
# 1,000,003 Hz, before a gigabyte-sized filter is built.
MAX_RESAMPLE_FACTOR = 48_000
# A run's map of filter taps holds at most max(ceil(taps / up), this) entries
# (512 KiB), so each matrix product below multiplies at least 4 rows.
_RESAMPLE_MAP_ENTRIES = 1 << 16
# Each matrix product does at most this many multiply-adds (M * N * K), or one
# row where a map alone holds more (only for a source rate above 4,096 times
# the target). OpenBLAS runs a product this small on the calling thread, so
# the bits of the output do not depend on the BLAS thread count.
_RESAMPLE_MACS_PER_CALL = 1 << 18


def _run_span(k0: int, count: int, up: int, down: int, taps: int) -> tuple:
    """(first, length) of the input samples that outputs k0 .. k0 + count - 1
    read; `first` is negative where the filter overhangs the input's start."""
    half = (taps - 1) // 2
    first = -((taps - 1 - half - k0 * down) // up)
    return first, ((k0 + count - 1) * down + half) // up - first + 1


def _output_runs(up: int, down: int, taps: int) -> tuple:
    """(period, runs). The outputs' maps repeat every `period` outputs, the
    smallest multiple of `up` that is >= 64. A period splits into `runs` runs
    of consecutive outputs, each with its own map: runs of about 64 outputs,
    shorter while the widest run's map, of at most
    ((width - 1) * down + taps - 1) // up + 1 rows, would hold more than
    _RESAMPLE_MAP_ENTRIES entries."""
    period = up * -(-64 // up)
    runs = period // 64
    while runs < period:
        width = -(-period // runs)
        if width * (((width - 1) * down + taps - 1) // up + 1) <= _RESAMPLE_MAP_ENTRIES:
            break
        runs += 1
    return period, runs


def _resample_taps(taps: int, up: int, m: int, pad: int) -> np.ndarray:
    """`pad` zeros, the filter `firwin(taps, 1 / m, window=("kaiser",
    RESAMPLE_KAISER_BETA))` designs times the gain `up` that zero-stuffing
    asks for, then `pad` zeros."""
    beta, alpha = defaults.RESAMPLE_KAISER_BETA, (taps - 1) / 2
    t = np.arange((taps + 1) // 2) - alpha  # the filter is even: compute its first half
    head = np.sinc(t / m) / m * (np.i0(beta * np.sqrt(1 - (t / alpha) ** 2)) / np.i0(beta))
    hp = np.zeros(taps + 2 * pad)
    h = hp[pad:pad + taps]
    h[:head.size] = head
    h[head.size:] = head[:taps // 2][::-1]
    h *= up / h.sum()
    return hp


def _segment(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """A copy of x[start:stop], read as zero outside x."""
    seg = np.zeros(stop - start)
    lo, hi = max(start, 0), min(stop, x.size)
    if lo < hi:
        seg[lo - start:hi - start] = x[lo:hi]
    return seg


def _polyphase(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """y[k] = sum_j h[k * down + half - j * up] x[j] for k < ceil(x.size *
    up / down), with half = (len(h) - 1) // 2: the output of
    `scipy.signal.resample_poly(x, up, down, window=h / up)`, computed run by
    run.

    A run of consecutive outputs is one window of the input times a map
    W [span, width] of filter taps. Outputs `period` apart (a multiple of
    `up`) read inputs `step` = period / up * down apart through the same
    taps, so the runs at one place in every period share one map.
    """
    m = max(up, down)
    taps = defaults.RESAMPLE_TAPS_PER_PHASE * m + 1
    half = (taps - 1) // 2
    period, runs = _output_runs(up, down, taps)
    step = period // up * down
    pad = (-(-period // runs) - 1) * down
    hp = _resample_taps(taps, up, m, pad)
    n_out = -(-x.size * up // down)
    y = np.empty((-(-n_out // period), period))
    for run in range(runs):
        k0, k1 = period * run // runs, period * (run + 1) // runs
        first, span = _run_span(k0, k1 - k0, up, down, taps)
        # w[s, i] = h[(k0 + i) * down + half - (first + s) * up], read from hp
        # (zero beyond the filter) with s running backwards, then flipped
        top = pad + k0 * down + half - (first + span - 1) * up
        w = sliding_window_view(hp[top:], (span - 1) * up + 1)[:(k1 - k0 - 1) * down + 1:down, ::up]
        w = np.ascontiguousarray(w.T[::-1])
        out = y[:, k0:k1]
        rows = max(1, _RESAMPLE_MACS_PER_CALL // w.size)
        inner = sliding_window_view(x, span) if x.size >= span else None
        for r in range(0, len(y), rows):
            start = first + r * step
            stop = start + (min(rows, len(y) - r) - 1) * step + span
            if start >= 0 and stop <= x.size:
                windows = inner[start:stop - span + 1:step]
            else:
                windows = sliding_window_view(_segment(x, start, stop), span)[::step]
            out[r:r + rows] = windows @ w
    return y.reshape(-1)[:n_out]


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited rate conversion. Identity when rates already match.

    Output length is ceil(n * target / source), so duration is preserved
    to within one output sample. Rates whose reduced ratio up/down has
    max(up, down) above MAX_RESAMPLE_FACTOR are an InvalidParameterError.

    The filter, firwin's Kaiser window (RESAMPLE_KAISER_BETA) over a sinc of
    RESAMPLE_TAPS_PER_PHASE taps per unit of max(up, down), cuts off at the
    narrower of the two Nyquist bands and has a DC gain of exactly 1. The
    output is `resample_poly`'s with that filter, to within 1.7e-15 on the
    tested rates (the tests bound it by 1e-13), computed as numpy matrix
    products over runs of outputs; its bytes do not depend on the BLAS
    thread count.
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
    return AudioClip(_polyphase(clip.samples, up, down), target_rate)

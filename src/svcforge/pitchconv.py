"""Speaker log-F0 statistics and pitch conversion.

The core map is mean-variance normalization in the log-F0 domain; on top of
it sit three production heuristics: optionally freezing both sigmas to one
(pure pitch shift), quantizing that pure shift to 100-cent steps, and adding
defaults.CROSS_DOMAIN_OFFSET_SEMITONES when converting from speech-range to
singing-range material. ConversionPolicy holds the three choices.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InvalidParameterError
from .pitch import F0Track
from .svcf import json_record, read_json

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SpeakerF0Stats:
    """Mean and population std of voiced-frame natural-log F0."""

    speaker_id: str
    mean_log_f0: float
    std_log_f0: float
    n_voiced_frames: int

    def __post_init__(self):
        if self.std_log_f0 < 0:
            raise InvalidParameterError("std_log_f0 must be >= 0")
        if self.n_voiced_frames < 1:
            raise InvalidParameterError("need at least one voiced frame")
        if not math.log(20.0) <= self.mean_log_f0 <= math.log(2000.0):
            raise InvalidParameterError(
                "mean_log_f0 outside the plausible [20, 2000] Hz range"
            )


@dataclass(frozen=True)
class ConversionPolicy:
    """Knobs for the conversion heuristics.

    scale_sigma=False applies a pure shift (both sigmas treated as one);
    quantize_cents, 0 (off) or 100, snaps that pure shift only; cross_domain
    (Task 2, speech-range to singing-range material) adds
    defaults.CROSS_DOMAIN_OFFSET_SEMITONES last, deliberately not quantized.
    """

    scale_sigma: bool = False
    quantize_cents: int = defaults.QUANTIZE_CENTS
    cross_domain: bool = False

    def __post_init__(self):
        if self.quantize_cents not in (0, 100):
            raise InvalidParameterError("quantize_cents must be 0 or 100")


def compute_f0_stats(tracks: list, speaker_id: str) -> SpeakerF0Stats:
    """Voiced-only mean and population std of log-F0 across tracks."""
    voiced = [t.log_f0[t.vuv] for t in tracks]
    log_f0 = np.concatenate(voiced) if voiced else np.zeros(0)
    if log_f0.size == 0:
        raise InvalidParameterError(f"no voiced frames for speaker {speaker_id!r}")
    return SpeakerF0Stats(
        speaker_id=speaker_id,
        mean_log_f0=float(np.mean(log_f0)),
        std_log_f0=float(np.std(log_f0)),
        n_voiced_frames=int(log_f0.size),
    )


def quantize_shift_cents(delta_cents: float) -> float:
    """Snap a shift to the nearest multiple of 100 cents, ties away from zero."""
    return math.copysign(math.floor(abs(delta_cents) / 100 + 0.5) * 100, delta_cents)


def convert_logf0(track: F0Track, stats_x: SpeakerF0Stats,
                  stats_y: SpeakerF0Stats, policy: ConversionPolicy) -> F0Track:
    """Map voiced log-F0 from the source to the target speaker.

    With scale_sigma: f_hat = (sy/sx) (f - mx) + my. Without: a constant
    shift my - mx, quantized per policy. The cross-domain offset is added
    last either way. Unvoiced frames pass through untouched; a voiced frame
    whose converted F0 overflows or underflows to 0 Hz is an error.
    """
    if policy.scale_sigma and stats_x.std_log_f0 == 0:
        raise InvalidParameterError(
            f"source {stats_x.speaker_id!r} has zero log-F0 variance"
        )
    lf = track.log_f0[track.vuv]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if policy.scale_sigma:
            out = (stats_y.std_log_f0 / stats_x.std_log_f0) * (lf - stats_x.mean_log_f0) \
                + stats_y.mean_log_f0
        else:
            cents = (stats_y.mean_log_f0 - stats_x.mean_log_f0) * 1200.0 / _LN2
            cents = quantize_shift_cents(cents) if policy.quantize_cents else cents
            out = lf + cents * _LN2 / 1200.0
        if policy.cross_domain:
            out = out + defaults.CROSS_DOMAIN_OFFSET_SEMITONES * _LN2 / 12.0
        voiced_f0 = np.exp(out)
    if not np.all(np.isfinite(voiced_f0) & (voiced_f0 > 0)):
        raise InvalidParameterError(
            "converted F0 is not a finite positive frequency on a voiced frame"
        )
    f0 = np.zeros_like(track.f0_hz)
    f0[track.vuv] = voiced_f0
    return F0Track(f0)


def load_stats(path: str | os.PathLike) -> SpeakerF0Stats:
    return json_record(SpeakerF0Stats, read_json(path, "stats file"), f"stats file {path}")

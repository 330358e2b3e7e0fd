#!/usr/bin/env python3
"""End-to-end desk demo on synthetic audio.

Synthesizes a vowel and a sung tone, runs feature extraction, makes a
seeded perturbation pair, computes speaker F0 statistics, converts the
tone's pitch track with the cross-domain policy, and scores the result.
All outputs land in a scratch directory printed at the end.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # synth: the test suite's synthetic signals

import numpy as np

from svcforge import defaults
from svcforge.audio import write_wav
from svcforge.features import (
    CANONICAL_FRAME_CONFIG,
    build_mel_filterbank,
    log_mel,
    loudness,
    stft,
)
from svcforge.metrics import f0_metrics
from svcforge.perturb import PerturbConfig, random_perturb_pair
from svcforge.pitch import estimate_f0
from svcforge.pitchconv import ConversionPolicy, compute_f0_stats, convert_logf0
from svcforge.svcf import write_tensor
from synth import sawtooth, vowel


def main() -> int:
    out_dir = Path(tempfile.mkdtemp(prefix="svcforge_demo_"))
    cfg = CANONICAL_FRAME_CONFIG
    fb = build_mel_filterbank(cfg)

    speech = vowel(f0_hz=120.0, duration_sec=1.5)
    singing = sawtooth(261.6, 1.5)  # roughly C4
    write_wav(speech, out_dir / "speech.wav")
    write_wav(singing, out_dir / "singing.wav")

    # features for the singing clip
    spec = stft(singing, cfg)
    write_tensor(out_dir / "singing.mel.svcf", log_mel(spec, fb))
    write_tensor(out_dir / "singing.loudness.svcf", loudness(spec, cfg))
    sing_track = estimate_f0(singing, cfg)
    write_tensor(out_dir / "singing.f0.svcf", sing_track.to_array())

    # a seeded perturbation pair of the vowel
    pair = random_perturb_pair(speech, PerturbConfig(seed=7))
    write_wav(pair[0], out_dir / "speech_perturb_a.wav")
    write_wav(pair[1], out_dir / "speech_perturb_b.wav")

    # speech-range source stats, singing-range conversion with the
    # cross-domain policy (+6 semitones on top of the quantized shift)
    speech_stats = compute_f0_stats([estimate_f0(speech, cfg)], "speech")
    singing_stats = compute_f0_stats([sing_track], "singing")
    converted = convert_logf0(sing_track, singing_stats, speech_stats,
                              ConversionPolicy.cross_domain())
    write_tensor(out_dir / "converted.f0.svcf", converted.to_array())
    agreement = f0_metrics(sing_track, converted)

    summary = {
        "out_dir": str(out_dir),
        "frame_grid_ms": 1000.0 * defaults.HOP / defaults.SAMPLE_RATE,
        "singing_median_f0": float(np.median(sing_track.f0_hz[sing_track.vuv])),
        "converted_median_f0": float(np.median(converted.f0_hz[converted.vuv])),
        "shift_rmse_cents": agreement.rmse_cents,
        "vuv_error_rate": agreement.vuv_error_rate,
    }
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

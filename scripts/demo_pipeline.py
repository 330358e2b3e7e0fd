#!/usr/bin/env python3
"""End-to-end desk demo on synthetic audio.

Synthesizes a vowel and a sung tone, runs feature extraction, makes a
seeded perturbation pair, computes speaker F0 statistics, converts the
tone's pitch track with the cross-domain policy, and scores the result. Exits 1
unless the conversion keeps every frame's voicing (a VUV error rate of 0).
The eight outputs are encoded as (path, bytes) pairs and written in one
`atomic_write_files` call, as the CLI writes, into a scratch directory that
the summary names.
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
from svcforge.audio import wav_bytes
from svcforge.features import mel_loudness
from svcforge.metrics import f0_metrics
from svcforge.perturb import PerturbConfig, random_perturb_pair
from svcforge.pitch import estimate_f0
from svcforge.pitchconv import ConversionPolicy, compute_f0_stats, convert_logf0
from svcforge.svcf import atomic_write_files, tensor_bytes
from synth import sawtooth, vowel


def main() -> int:
    out_dir = Path(tempfile.mkdtemp(prefix="svcforge_demo_"))

    speech = vowel(f0_hz=120.0, duration_sec=1.5)
    singing = sawtooth(261.6, 1.5)  # roughly C4

    # features for the singing clip, one block of frames at a time
    mel, loud = mel_loudness(singing)
    sing_track = estimate_f0(singing)

    # a seeded perturbation pair of the vowel
    pair = random_perturb_pair(speech, PerturbConfig(seed=7))

    # speech-range source stats, singing-range conversion with the
    # cross-domain policy (+6 semitones on top of the quantized shift)
    speech_stats = compute_f0_stats([estimate_f0(speech)], "speech")
    singing_stats = compute_f0_stats([sing_track], "singing")
    converted = convert_logf0(sing_track, singing_stats, speech_stats,
                              ConversionPolicy(cross_domain=True))
    agreement = f0_metrics(sing_track, converted)

    clips = {"speech.wav": speech, "singing.wav": singing,
             "speech_perturb_a.wav": pair[0], "speech_perturb_b.wav": pair[1]}
    tensors = {"singing.mel.svcf": mel, "singing.loudness.svcf": loud,
               "singing.f0.svcf": sing_track.to_array(),
               "converted.f0.svcf": converted.to_array()}
    atomic_write_files([(out_dir / name, wav_bytes(clip)) for name, clip in clips.items()]
                       + [(out_dir / name, tensor_bytes(t, name)) for name, t in tensors.items()])

    summary = {
        "out_dir": str(out_dir),
        "frame_grid_ms": 1000.0 * defaults.HOP / defaults.SAMPLE_RATE,
        "singing_median_f0": float(np.median(sing_track.f0_hz[sing_track.vuv])),
        "converted_median_f0": float(np.median(converted.f0_hz[converted.vuv])),
        "shift_rmse_cents": agreement["rmse_cents"],
        "vuv_error_rate": agreement["vuv_error_rate"],
    }
    print(json.dumps(summary, indent=2))
    return 0 if agreement["vuv_error_rate"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Seeded CLI outputs pinned by sha256.

One chain of commands over fixed synthetic inputs: `extract` at --jobs 2
(a 44.1 kHz take of several frame blocks and a one-block 24 kHz take),
`f0-stats`, `convert-pitch --policy cross-domain`, `segment --mode vad`,
`manifest compose` over a small manifest and a JSON spec (`kinds` null,
`always_include_datasets` absent), `segment --mode rest` over notes whose
pitches are an integer, null, absent and "Rest", and a small `ddpm train` ->
`finetune` -> `sample`; apart from that chain a `ddpm sample-oracle`. Every
written file and every command's stdout must hash to the digests below,
which a refactor that claims byte-identical outputs must leave unchanged.
They were computed with the numpy and scipy versions CI pins. The run is in
a fresh working directory with relative paths, so stdout holds no machine's
path.

The long take's last block is 37 frames: BLAS multiplies a last block of
1-15 frames with other kernels than a full one (see `features.mel_loudness`).
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from svcforge import defaults
from svcforge.audio import AudioClip, write_wav
from svcforge.cli import main
from svcforge.features import BLOCK_FRAMES
from synth import sawtooth, vowel

GOLDEN = {
    "stdout of extract --in long.wav --in short.wav --out-dir feats --jobs 2":
        "3b0a61219157542dc19496b4518536b13932bbf9e6bf6448864da62679dbd425",
    "stdout of f0-stats --in long.wav --in short.wav --speaker-id src --out src.json":
        "082b5e5f475654fbdbd963cc37dd5539f496bb02fbd5812765f07a73b5ab5bdb",
    "stdout of f0-stats --in short.wav --speaker-id tgt --out tgt.json":
        "0598b6df877136f7251776acfd2f15608cfbd314d6f8820099ba6a93788b0946",
    "stdout of convert-pitch --in feats/long.f0.svcf --out conv.f0.svcf --source-stats src.json --target-stats tgt.json --policy cross-domain":
        "d13b4eea78bc6b1d4721ca5425118fadf479f568e30ef1b23e2526d18b5528ca",
    "stdout of segment --mode vad --in long.wav --out seg.json":
        "b391444ae3639bc45c5b123a25af644fbfa44ed0967b83080de2a525ceba39e5",
    "stdout of manifest compose --manifest m.jsonl --spec spec.json --out sel.jsonl":
        "52021fcc579c433e34f8e5b951593f1d73286bdcece8c1e59658218a61913c52",
    "stdout of segment --mode rest --notes notes.json --out rest.json":
        "1db59f534af8e0e383726137fa283a66f7f2f61e0ac23fcfb142053615ca0937",
    "stdout of ddpm train --out-dir model --seed 3 --steps 40 --diffusion-steps 20":
        "5b92a0bc23e06c8dc9d3108f3d05d46e4cfc4b06d4f1a71e61d8a8f2938222a5",
    "stdout of ddpm finetune --model-dir model --out-dir tuned --seed 4 --iterations 30":
        "074d07369003181db7baa3c072d840849426e8d94278c68ffddfbae14ce38438",
    "stdout of ddpm sample --model-dir tuned --out sample.svcf --seed 5":
        "56cb5fe71df4002ea3950e6363dc35eaf49fe072d35e77fe4d5d441e322084d0",
    "conv.f0.svcf":
        "7239b070a7bc1bc7eb03b05b063e867cefc4304b30eb4173411586f881928883",
    "feats/long.f0.svcf":
        "2e1a73d5b1395e87ba54eb9d7b4bc13bf02f9681aac41901885423a3e60c9b47",
    "feats/long.loudness.svcf":
        "81e9a1fe6d6ebcaaf9ee726900fb1cd51c909c78f59e8beea3709c95c55a026d",
    "feats/long.mel.svcf":
        "775d5fafe8df9d6b2d5586799d7c1fd00589c8d3951d4a98a7d90b61fdef7c93",
    "feats/short.f0.svcf":
        "3707ffa2c4ff6cfd2329ee83c1ba7bb8f7493c9dafd78a104feae53051ca4e47",
    "feats/short.loudness.svcf":
        "ef22d88f42f788451e3fa6e030964cd09d5697d7bf1710c007039403ab4cb832",
    "feats/short.mel.svcf":
        "113efd085aef96be0a2c4afc4b942500a7232a7da4c3f8b6b575ec9377021462",
    "long.wav":
        "fde344310ed32ba55de95401265d4955b4a15656f38d65c04b825c01848f458a",
    "m.jsonl":
        "1e7d621a1e2d5816e5d5254894b8f2825aa1b2c71c02793b32c84a8989b07fb2",
    "model/b1.svcf":
        "9007e334c50a42132c8cf714e0bcc4642b80ee14ea802fe5d8aafef0e60c1491",
    "model/b2.svcf":
        "44fe5a1eff513c88c8941f3d740736c77aa0d1ec5bc80b2b35305cae518fd1ce",
    "model/cln_b_beta.svcf":
        "366ba0df33e2d50b7818fd2b4128a824b433a2a53547c78e085e67734df6afd2",
    "model/cln_b_gamma.svcf":
        "ad875bf442a63f400af5f108d6a8e91c20ab0b89534a59b5f73b2e81a31d56dd",
    "model/cln_w_beta.svcf":
        "98688f7f29efcc18f968ffb2a13e06480c914965dcede96e5ce7d8c315a9df53",
    "model/cln_w_gamma.svcf":
        "e9d1b9cf579b985608dbeb21e3420933dabc468d7feffc8a5c01fa529d9d7b49",
    "model/index.json":
        "c109bc103451f62768d080d4055e018431fdf60f6d2173dc0ba2c69622eeff31",
    "model/w1.svcf":
        "ed1bc9ef1eed6e9e9a542c5f23a17d559df6d64d1e46afe56919a377fd4a4727",
    "model/w2.svcf":
        "f8a2c5654ebc332e12a39b6c922a0188d6ff89c77b909a4a237659b15ce88e20",
    "notes.json":
        "f846c8ee91bb3ae1533a65384c36dea0b68cb83b99d8e6ed7445ad23249ba526",
    "rest.json":
        "fdaf0fd7c820e8ed7646a4b9a8905cff1e4bec56b7d950e9efe6e7390fbf81c2",
    "sample.svcf":
        "f215da9da370eb7194b93b78e38c2e2847b2aa87f90254b41c9d699363fc6933",
    "seg.json":
        "dfd605a5ce6aceb861ef80859fa3f98dbe2f072a189c74251c02b29bc2c3e225",
    "sel.jsonl":
        "fce6841e102205e5dae41319fd8e648906890aa427f166408d80378163504d60",
    "short.wav":
        "5cc2bf644724a6e222dbe510c9d79e479ee16f3f88850b7d5c2ab9bde7c8f015",
    "spec.json":
        "6464238e1a9d343d0069c347c0a9ba5df8376aa56b896f3d3f1f4a5ca4bda43c",
    "src.json":
        "70a1e6a3232f8f9b742f72173188712fb741641b2c5894bfcaf83b5dbb921ef8",
    "tgt.json":
        "f1bc242a11bec4690344fd7665657e9396d31249af581498765a04e0842c61f7",
    "tuned/b1.svcf":
        "9007e334c50a42132c8cf714e0bcc4642b80ee14ea802fe5d8aafef0e60c1491",
    "tuned/b2.svcf":
        "44fe5a1eff513c88c8941f3d740736c77aa0d1ec5bc80b2b35305cae518fd1ce",
    "tuned/cln_b_beta.svcf":
        "d458db27eaf49e9303c55c3c9842a740aeca78456043a36ef0326e4e7e023d96",
    "tuned/cln_b_gamma.svcf":
        "57b869f125f589cc23a5edd1586eb86ad6170875bae7c8a3fc3e9a16745ff33a",
    "tuned/cln_w_beta.svcf":
        "3671b85f945ab77c1b6bf8689025c1b18b581097382dd295222c8e66263b57a3",
    "tuned/cln_w_gamma.svcf":
        "3dfbda96b95a9977bee2a21e1ee80f93c898a5a13dd92cd1b4885c3b3f78077f",
    "tuned/index.json":
        "c109bc103451f62768d080d4055e018431fdf60f6d2173dc0ba2c69622eeff31",
    "tuned/w1.svcf":
        "ed1bc9ef1eed6e9e9a542c5f23a17d559df6d64d1e46afe56919a377fd4a4727",
    "tuned/w2.svcf":
        "f8a2c5654ebc332e12a39b6c922a0188d6ff89c77b909a4a237659b15ce88e20",
}


def _inputs() -> None:
    n_frames = 2 * BLOCK_FRAMES + 37
    n = defaults.WIN_LENGTH + (n_frames - 1) * defaults.HOP  # at 24 kHz
    rate = 44100
    long = sawtooth(196.0, n / defaults.SAMPLE_RATE, sample_rate=rate).samples.copy()
    long += 0.01 * np.random.default_rng(22).standard_normal(long.size)
    long[long.size // 3:long.size // 2] = 0.0  # a silent stretch, for VAD and VUV
    write_wav(AudioClip(long, rate), "long.wav")
    write_wav(vowel(f0_hz=150.0, duration_sec=0.8), "short.wav")
    entries = [("a/1", "en", "singing", 30.5), ("a/2", "en", "speech", 12),
               ("b/1", "zh", "singing", 7.25), ("svcc/1", "en", "singing", 3600)]
    Path("m.jsonl").write_text("".join(json.dumps({
        "id": eid, "path": f"corpora/{eid}", "dataset": eid.split("/")[0], "language": lang,
        "kind": kind, "speaker": eid.replace("/", "-"), "duration_sec": sec,
        "sample_rate": 24000, "note": "an unknown key"}) + "\n" for eid, lang, kind, sec in entries))
    Path("spec.json").write_text(json.dumps({"name": "en_any", "languages": ["en"],
                                             "kinds": None}))
    Path("notes.json").write_text(json.dumps([
        {"onset_sec": 0.0, "offset_sec": 0.5, "pitch": 60},
        {"onset_sec": 0.5, "offset_sec": 1.25, "pitch": None},
        {"onset_sec": 1.25, "offset_sec": 1.5, "pitch": 62},
        {"onset_sec": 1.5, "offset_sec": 2.25},
        {"onset_sec": 2.25, "offset_sec": 2.5, "pitch": 64},
        {"onset_sec": 2.5, "offset_sec": 3.25, "pitch": "Rest"},
        {"onset_sec": 3.25, "offset_sec": 3.5, "pitch": 65}]))


_COMMANDS = [
    ["extract", "--in", "long.wav", "--in", "short.wav", "--out-dir", "feats", "--jobs", "2"],
    ["f0-stats", "--in", "long.wav", "--in", "short.wav", "--speaker-id", "src",
     "--out", "src.json"],
    ["f0-stats", "--in", "short.wav", "--speaker-id", "tgt", "--out", "tgt.json"],
    ["convert-pitch", "--in", "feats/long.f0.svcf", "--out", "conv.f0.svcf",
     "--source-stats", "src.json", "--target-stats", "tgt.json", "--policy", "cross-domain"],
    ["segment", "--mode", "vad", "--in", "long.wav", "--out", "seg.json"],
    ["manifest", "compose", "--manifest", "m.jsonl", "--spec", "spec.json", "--out", "sel.jsonl"],
    ["segment", "--mode", "rest", "--notes", "notes.json", "--out", "rest.json"],
    ["ddpm", "train", "--out-dir", "model", "--seed", "3", "--steps", "40",
     "--diffusion-steps", "20"],
    ["ddpm", "finetune", "--model-dir", "model", "--out-dir", "tuned", "--seed", "4",
     "--iterations", "30"],
    ["ddpm", "sample", "--model-dir", "tuned", "--out", "sample.svcf", "--seed", "5"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_seeded_cli_outputs_match_their_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _inputs()
    got = {}
    for argv in _COMMANDS:
        assert main(argv) == 0, argv
        got["stdout of " + " ".join(argv)] = _sha(capsys.readouterr().out.encode())
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            got[path.as_posix()] = _sha(path.read_bytes())
    assert got == GOLDEN


def test_seeded_oracle_sample_matches_its_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["ddpm", "sample-oracle", "--mean", "0.5", "--std", "2.0", "--dim", "8",
                 "--steps", "20", "--seed", "5", "--guidance-scale", "1.5",
                 "--out", "y.svcf"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == \
        "4d9ed770a6b3a185c7edc46772847cc8554eb8632a939fa9b38c91c555dd708f"
    assert _sha(Path("y.svcf").read_bytes()) == \
        "e471872c695c096d6b1242c2643a5a39daac265f9fca35f4dfa1d01164e337a8"
